"""Command line interface.

Heavy imports happen inside handlers so --threads can pin the BLAS pool
before numpy loads. `run` resolves the configuration, calls the handler,
which writes its artifacts and returns its manifest extras, then writes
manifest.json with the resolved configuration; re-running the recorded
argv reproduces the outputs. A command that fails removes the files it
wrote, so a run directory holds a whole run or none of it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .errors import TopofuseError
from . import worker

VERSION = "0.1.0"
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage()}")


def positive_int(text: str) -> int:
    """argparse type of --threads and the counts --top-n, --mrre-k, --paga-k and --restarts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {value}")
    return value


def finite_nonnegative(text: str) -> float:
    """argparse type of --l1: a finite number of at least 0."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"expects a finite number >= 0, got {text}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="topofuse", description="Topology-preserving multi-modal embedding for spatial omics")
    p.add_argument("--version", action="version", version=f"topofuse {VERSION}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, data=False, config=True, emb=False, labels=False, ckpt=False):
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument(
            "--threads",
            type=positive_int,
            default=1,
            help="BLAS threads per process, a positive integer (default 1, deterministic); when the CPUs"
            " hold two processes, one child at a time runs the first stage that asks for it, with the"
            " same bytes either way",
        )
        if data:
            sp.add_argument("--data", required=True, help="directory with tra.csv and coords.csv")
        if config:
            sp.add_argument("--config", default=None, help="JSON config file")
            sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
            sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        if emb:
            sp.add_argument("--emb", required=True, help="embedding.csv from a train run")
        if labels:
            sp.add_argument("--labels", required=True, help="labels.csv from a cluster run")
        if ckpt:
            sp.add_argument("--ckpt", required=True, help="checkpoint written by train")

    sp = sub.add_parser("synth", help="generate a synthetic dataset with planted domains")
    common(sp, config=False)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--domains", type=int, default=4)
    sp.add_argument("--spots-per-domain", type=int, default=50)
    sp.add_argument("--genes", type=int, default=200)
    sp.add_argument("--mor-dims", type=int, default=12)
    sp.add_argument("--signal-tra", type=float, default=3.0)
    sp.add_argument("--signal-mor", type=float, default=2.0)
    sp.add_argument("--noise-std", type=float, default=1.0)
    sp.add_argument("--spacing", type=float, default=1.0)

    sp = sub.add_parser("preprocess", help="filter, normalize and standardize a dataset")
    common(sp, data=True)

    sp = sub.add_parser("train", help="fit the fused embedding")
    common(sp, data=True)

    sp = sub.add_parser("cluster", help="mixture-model clustering of an embedding")
    common(sp, data=True, emb=True)
    sp.add_argument("--restarts", type=positive_int, default=10)

    sp = sub.add_parser("visualize", help="2-D visualization of an embedding")
    common(sp, emb=True)
    sp.add_argument("--labels", default=None, help="labels.csv used for coloring")

    sp = sub.add_parser("deconvolve", help="L1 decomposition onto cluster means")
    common(sp, emb=True, labels=True, config=False)
    sp.add_argument("--l1", type=finite_nonnegative, default=0.1)

    sp = sub.add_parser("markers", help="rank genes by knockout displacement")
    common(sp, data=True, labels=True, ckpt=True, config=False)
    sp.add_argument("--top-n", type=positive_int, default=10)

    sp = sub.add_parser("trajectory", help="cluster-graph connectivity")
    common(sp, emb=True, labels=True, config=False)
    sp.add_argument("--paga-k", type=positive_int, default=15)

    sp = sub.add_parser("evaluate", help="agreement metrics for an embedding")
    common(sp, data=True, emb=True)
    sp.add_argument("--labels", default=None, help="predicted labels.csv")
    sp.add_argument("--mrre-k", type=positive_int, default=10)

    sp = sub.add_parser("report", help="train plus every downstream analysis")
    common(sp, data=True)
    sp.add_argument("--l1", type=finite_nonnegative, default=0.1)
    sp.add_argument("--top-n", type=positive_int, default=10)
    sp.add_argument("--paga-k", type=positive_int, default=15)
    sp.add_argument("--mrre-k", type=positive_int, default=10)
    sp.add_argument("--restarts", type=positive_int, default=10)
    return p


def _parse_override(text: str):
    key, sep, val = text.partition("=")
    if not sep or not key:
        raise CliError(f"--set expects KEY=VALUE, got {text!r}")
    try:
        return key, json.loads(val)
    except json.JSONDecodeError:
        return key, val


def _resolve_config(args):
    """File keys, then --set overrides, then --seed, built as one RunConfig."""
    from .dataio import config_from_dict, load_config

    values = load_config(args.config) if args.config else {}
    for item in args.set or []:
        key, value = _parse_override(item)
        values[key] = value
    if args.seed is not None:
        values["seed"] = args.seed
    return config_from_dict(values)


def _write_manifest(args, cfg, extra):
    from .dataio import write_json

    payload = {
        "artifact": "topofuse",
        "version": VERSION,
        "command": args.command,
        "argv": list(args._argv),
        "inputs": {
            k: getattr(args, k)
            for k in ("data", "config", "emb", "labels", "ckpt")
            if getattr(args, k, None)
        },
        "out": args.out,
        "threads": args.threads,
        "config": cfg.to_dict() if cfg is not None else None,
    }
    payload.update(extra)
    write_json(os.path.join(args.out, "manifest.json"), payload)


def _check_out(args):
    """Fail before any work when `--out` is the `--data` directory or is not, and cannot become, a directory.

    Looks at `--out` or its nearest existing ancestor and creates nothing: the
    directory still appears only with the first file written into it.
    """
    from .errors import IoFailure

    if "data" in args and os.path.realpath(args.out) == os.path.realpath(args.data):
        raise IoFailure(f"--out {args.out} is the --data directory {args.data}; a run directory holds one run")
    path = os.path.abspath(args.out)
    while not os.path.exists(path) and os.path.dirname(path) != path:
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise IoFailure(f"cannot write to {args.out}: {path} is not a directory")


def _load_data(d):
    from .dataio import load_dataset

    def optional(name):
        path = os.path.join(d, name)
        return path if os.path.isfile(path) else None

    tra, coords = os.path.join(d, "tra.csv"), os.path.join(d, "coords.csv")
    return load_dataset(tra, coords, optional("mor.csv"), optional("labels.csv"))


def _model_inputs(ds, cfg):
    """Preprocessed data, spatial graph and `cfg` with the radius the graph used: what the network runs on."""
    from .preprocess import preprocess_dataset
    from .topology import auto_epsilon, build_spatial_graph

    pre = preprocess_dataset(ds, cfg)
    eps = cfg.epsilon_radius
    if eps == "auto":
        eps = auto_epsilon(ds.coords)
    return pre, build_spatial_graph(ds.coords, float(eps)), dataclasses.replace(cfg, epsilon_radius=float(eps))


def cmd_synth(args, cfg) -> dict:
    from .dataio import write_dataset, write_matrix_csv
    from .synth import SynthSpec, generate

    spec = SynthSpec(
        n_domains=args.domains,
        spots_per_domain=args.spots_per_domain,
        spacing=args.spacing,
        genes=args.genes,
        mor_dims=args.mor_dims,
        signal_tra=args.signal_tra,
        signal_mor=args.signal_mor,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    ds, truth = generate(spec)
    write_dataset(ds, args.out)
    write_matrix_csv(os.path.join(args.out, "truth_tra.csv"), ds.spot_ids, ds.gene_ids, truth["tra"])
    if truth["mor"] is not None:
        cols = [f"m{i}" for i in range(truth["mor"].shape[1])]
        write_matrix_csv(os.path.join(args.out, "truth_mor.csv"), ds.spot_ids, cols, truth["mor"])
    print(f"wrote {ds.n_spots} spots x {len(ds.gene_ids)} genes to {args.out}")
    return {"synth_spec": spec.__dict__ | {}}


def cmd_preprocess(args, cfg) -> dict:
    from .dataio import write_matrix_csv
    from .preprocess import preprocess_dataset

    ds = _load_data(args.data)
    pre = preprocess_dataset(ds, cfg)
    write_matrix_csv(os.path.join(args.out, "pre_tra.csv"), ds.spot_ids, pre.gene_ids, pre.tra)
    if pre.mor is not None:
        cols = [f"pc{i}" for i in range(pre.mor.shape[1])]
        write_matrix_csv(os.path.join(args.out, "pre_mor.csv"), ds.spot_ids, cols, pre.mor)
    print(f"kept {len(pre.gene_ids)} genes for {pre.n_spots} spots")
    return {}


def _save_model(out, spot_ids, emb, params):
    """Write embedding.csv and ckpt.npz, the training outputs later subcommands read."""
    from .dataio import write_matrix_csv
    from .network import save_checkpoint

    cols = [f"z{i}" for i in range(emb.z.shape[1])]
    write_matrix_csv(os.path.join(out, "embedding.csv"), spot_ids, cols, emb.z)
    save_checkpoint(params, os.path.join(out, "ckpt.npz"))


def _cluster(ds, z, cfg, restarts):
    """Mixture-model labels for `z` (rows in dataset order); returns (k, labels)."""
    import numpy as np

    from .downstream import gmm_cluster, refine_labels

    # Default to the annotated domain count when the user did not pin one.
    k = cfg.n_clusters
    if "n_clusters" not in cfg.explicit and ds.labels is not None:
        k = len(set(ds.labels.tolist()))
    labels = gmm_cluster(z, k, restarts=restarts, rng=np.random.default_rng([cfg.seed, 3])).labels
    if cfg.refine:
        labels = refine_labels(labels, ds.coords)
    return k, labels


def _marker_rows(pre, params, spatial, labels, top_n):
    """Marker table as (cluster, rank, gene_id, importance) rows, clusters ascending."""
    from .downstream import marker_tables

    tables = marker_tables(pre, params, spatial, labels, top_n=top_n)
    return [
        (c, rank, gene, imp) for c in sorted(tables) for rank, (gene, imp) in enumerate(tables[c], start=1)
    ]


def _paga_edges(z, labels, k):
    """PAGA cluster ids and one {"c", "d", "connectivity"} edge per cluster pair."""
    from .downstream import paga_connectivity

    paga = paga_connectivity(z, labels, k=k)
    ids = paga.cluster_ids
    edges = [
        {"c": ids[i], "d": ids[j], "connectivity": float(paga.connectivity[i, j])}
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]
    return ids, edges


def _metrics(x, z, truth, predicted, mrre_k):
    """MRRE between `x` and `z`, plus ARI when both labelings are given."""
    from .evaluate import ari, mrre

    metrics = {}
    k = min(mrre_k, (z.shape[0] - 1) // 2)  # mrre needs 1 <= k < n / 2
    if k >= 1:
        metrics["mrre"] = mrre(x, z, k)
    if truth is not None and predicted is not None:
        metrics["ari"] = ari(truth, predicted)
    return metrics


def _contribution(mats, labels, seed):
    """Modality contribution of the (tra, mor) pair `mats`, or None without morphology or two labels."""
    from .evaluate import modality_contribution

    if mats[1] is None or len(set(labels.tolist())) < 2:
        return None
    return modality_contribution(mats, labels, names=["tra", "mor"], seed=seed)


def cmd_train(args, cfg) -> dict:
    from .dataio import write_losses_csv, write_matrix_csv
    from .objective import train

    ds = _load_data(args.data)
    pre, spatial, model_cfg = _model_inputs(ds, cfg)
    state, emb = train(pre, spatial, model_cfg)
    _save_model(args.out, ds.spot_ids, emb, state.params)
    for name, y in (("y_tra.csv", emb.y_tra), ("y_mor.csv", emb.y_mor)):
        if y is not None:
            write_matrix_csv(os.path.join(args.out, name), ds.spot_ids, [f"y{i}" for i in range(y.shape[1])], y)
    write_losses_csv(os.path.join(args.out, "losses.csv"), state.history)
    print(f"trained {cfg.epochs} epochs; final loss {state.history[-1]['total']:.6g}")
    return {"epsilon_used": model_cfg.epsilon_radius, "isolated_nodes": len(spatial.isolated)}


def cmd_cluster(args, cfg) -> dict:
    from .dataio import read_spot_csv, write_labels_csv

    ds = _load_data(args.data)
    _, z = read_spot_csv(args.emb, "embedding", ds.spot_ids, args.data)
    k, labels = _cluster(ds, z, cfg, args.restarts)
    write_labels_csv(os.path.join(args.out, "labels.csv"), ds.spot_ids, labels)
    print(f"assigned {k} clusters over {ds.n_spots} spots")
    return {"n_clusters": k}


def cmd_visualize(args, cfg) -> dict:
    import numpy as np

    from .dataio import plot_scatter, read_spot_csv, write_matrix_csv
    from .downstream import _fit_vis

    ids, z = read_spot_csv(args.emb, "embedding", None, None)
    labels = np.zeros(len(ids), dtype=np.int64)
    if args.labels:
        _, labels = read_spot_csv(args.labels, "labels", ids, args.emb)
    vis, _ = _fit_vis(z, cfg)
    write_matrix_csv(os.path.join(args.out, "vis.csv"), ids, ["v0", "v1"], vis)
    plot_scatter(vis, labels, os.path.join(args.out, "vis.svg"))
    print(f"embedded {len(ids)} spots in 2-D")
    return {}


def cmd_deconvolve(args, cfg) -> dict:
    from .dataio import read_spot_csv, write_deconvolution_csv
    from .downstream import deconvolve

    ids, z = read_spot_csv(args.emb, "embedding", None, None)
    _, labels = read_spot_csv(args.labels, "labels", ids, args.emb)
    res = deconvolve(z, labels, args.l1)
    path = os.path.join(args.out, "deconvolution.csv")
    write_deconvolution_csv(path, ids, res.cluster_ids, res.weights, res.impurity)
    print(f"deconvolved {len(ids)} spots onto {len(res.cluster_ids)} cluster means")
    return {"l1": args.l1, "kkt": res.kkt, "converged": res.converged}


def cmd_markers(args, cfg) -> dict:
    from .dataio import read_spot_csv, write_markers_csv
    from .network import load_checkpoint

    ds = _load_data(args.data)
    params = load_checkpoint(args.ckpt)
    _, labels = read_spot_csv(args.labels, "labels", ds.spot_ids, args.data)
    pre, spatial, _ = _model_inputs(ds, params.config)  # the preprocessing and graph the model was trained on
    rows = _marker_rows(pre, params, spatial, labels, args.top_n)
    write_markers_csv(os.path.join(args.out, "markers.csv"), rows)
    print(f"ranked markers for {len(set(labels.tolist()))} clusters")
    return {"top_n": args.top_n}


def cmd_trajectory(args, cfg) -> dict:
    from .dataio import read_spot_csv, write_json

    ids, z = read_spot_csv(args.emb, "embedding", None, None)
    _, labels = read_spot_csv(args.labels, "labels", ids, args.emb)
    cluster_ids, edges = _paga_edges(z, labels, args.paga_k)
    write_json(os.path.join(args.out, "paga.json"), {"cluster_ids": cluster_ids, "edges": edges})
    print(f"connectivity over {len(cluster_ids)} clusters")
    return {"paga_k": args.paga_k}


def cmd_evaluate(args, cfg) -> dict:
    from .dataio import read_spot_csv, write_json
    from .preprocess import preprocess_dataset

    ds = _load_data(args.data)
    _, z = read_spot_csv(args.emb, "embedding", ds.spot_ids, args.data)
    predicted = None
    if args.labels:
        _, predicted = read_spot_csv(args.labels, "labels", ds.spot_ids, args.data)
    metrics = _metrics(preprocess_dataset(ds, cfg).tra, z, ds.labels, predicted, args.mrre_k)
    write_json(os.path.join(args.out, "metrics.json"), metrics)
    print(json.dumps(metrics))
    return {"metrics": metrics}


def cmd_report(args, cfg) -> dict:
    import numpy as np

    from .dataio import (
        plot_scatter,
        write_deconvolution_csv,
        write_json,
        write_labels_csv,
        write_markers_csv,
        write_matrix_csv,
    )
    from .downstream import _fit_vis, deconvolve
    from .objective import train

    def out(name):
        return os.path.join(args.out, name)

    ds = _load_data(args.data)
    pre, spatial, model_cfg = _model_inputs(ds, cfg)
    state, emb = train(pre, spatial, model_cfg)
    # the visualization goes first to a child, once training's feeder has ended; the rest runs here
    with worker.Fork("visualization", _fit_vis, emb.z, cfg) as vis_fit:
        k, labels = _cluster(ds, emb.z, cfg, args.restarts)
        fit_on = labels if ds.labels is None else ds.labels  # the labels the contributions' SVMs fit
        parts = {
            "inputs": _contribution([pre.tra, pre.mor], fit_on, cfg.seed),
            "embeddings": _contribution([emb.y_tra, emb.y_mor], fit_on, cfg.seed),
        }
        dec = deconvolve(emb.z, labels, args.l1)
        markers = _marker_rows(pre, state.params, spatial, labels, args.top_n)
        metrics = _metrics(pre.tra, emb.z, ds.labels, labels, args.mrre_k)
        paga_edges = _paga_edges(emb.z, labels, args.paga_k)[1] if len(set(labels.tolist())) >= 2 else None
        # what needs nothing from the child is written while it runs
        write_labels_csv(out("labels.csv"), ds.spot_ids, labels)
        write_markers_csv(out("markers.csv"), markers)
        write_deconvolution_csv(out("deconvolution.csv"), ds.spot_ids, dec.cluster_ids, dec.weights, dec.impurity)
        plot_scatter(ds.coords, labels, out("domains.svg"))
        _save_model(args.out, ds.spot_ids, emb, state.params)
        vis, vis_history = vis_fit.result()
    payload = {
        "metrics": metrics,
        "notes": {
            "epsilon_used": model_cfg.epsilon_radius,
            "isolated_nodes": len(spatial.isolated),
            "n_clusters": k,
            "deconvolution_converged": dec.converged,
            "vis_final_loss": vis_history[-1],
        },
        "config": cfg.to_dict(),
        "loss_history": state.history,
    }
    if paga_edges is not None:
        payload["paga_edges"] = paga_edges
    payload["markers"] = [{"cluster": c, "rank": r, "gene_id": g, "importance": v} for c, r, g, v in markers]
    if parts["inputs"] is not None:
        names = ["tra_input", "mor_input", "tra_emb", "mor_emb"]
        payload["modality_contribution"] = {
            "names": names,
            **{key: {"summary": part.summary, "train_accuracy": part.train_accuracy} for key, part in parts.items()},
        }
        per_spot = np.column_stack([part.per_spot for part in parts.values()])
        write_matrix_csv(out("contributions.csv"), ds.spot_ids, names, per_spot)
    write_matrix_csv(out("vis.csv"), ds.spot_ids, ["v0", "v1"], vis)
    write_json(out("report.json"), payload)
    plot_scatter(vis, labels, out("vis.svg"))
    summary = {key: round(val, 4) for key, val in metrics.items()}
    print(f"report written to {args.out} {json.dumps(summary)}")
    return {"n_clusters": k, "epsilon_used": model_cfg.epsilon_radius}


_HANDLERS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "cluster": cmd_cluster,
    "visualize": cmd_visualize,
    "deconvolve": cmd_deconvolve,
    "markers": cmd_markers,
    "trajectory": cmd_trajectory,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def run(argv) -> int:
    worker.keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for var in _THREAD_VARS:  # before numpy loads
            os.environ[var] = str(args.threads)
        worker.allow(args.threads)
        args._argv = list(argv)
        cfg = _resolve_config(args) if "config" in args else None  # synth, deconvolve, markers, trajectory take none
        _check_out(args)
        from .dataio import delete_on_error

        with delete_on_error():
            extra = _HANDLERS[args.command](args, cfg)
            _write_manifest(args, cfg, extra)
        return 0
    except CliError as e:
        print(f"topofuse: {e}", file=sys.stderr)
        return 1
    except TopofuseError as e:
        print(f"topofuse: error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help / --version
        code = e.code
        return 0 if code is None else int(code)
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
