#!/usr/bin/env python3
"""Sweep `topofuse report` over training seeds, data seeds and epoch counts.

usage: python3 scripts/seed_sweep.py TAG [--src DIR]

Runs `report --threads 1`, at each of EPOCHS (150 and 600), on:
  - `synth --seed 42` (4x50 spots) with training seeds 1-10;
  - `synth --seed S` for S = 1..5 with training seed 42;
  - the 8x125 section (`synth --seed 42 --domains 8 --spots-per-domain 125`)
    with training seed 42;
  - criterion 7's data, `synth --seed S --signal-mor 0.0` for S = 0..4, with
    training seed S.
Every command imports topofuse from DIR (default: this checkout's src/), so
the same script measures any tree. JOBS (2) runs go at a time.

Per run it records the exit code, ARI and MRRE from report.json, the
criterion-6 verdict (ARI >= 0.80 and MRRE <= 4.5), the mean embedding norm
|z|, criterion 7's ratio (median tra over median mor contribution in the
embedding space), criterion 9's gap (mean per-gene correlation of the
decoder's denoised expression with the truth, minus that of the noisy
input) and criterion 7's own numbers as its test computes them: `ratio_in`
(median tra over median mor contribution of the preprocessed inputs, each
modality scored alone), `ratio_emb` (the same for the encoder outputs y_tra
and y_mor) and `c7_quotient` = ratio_emb / ratio_in; the criterion asks for
a quotient below 1. Writes BENCH_seeds_TAG.json in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DATASETS = {
    "synth42": ["--seed", "42"],
    **{f"synth{s}": ["--seed", str(s)] for s in range(1, 6)},
    "section8x125": ["--seed", "42", "--domains", "8", "--spots-per-domain", "125"],
    **{f"c7synth{s}": ["--seed", str(s), "--signal-mor", "0.0"] for s in range(5)},
}
JOBS = 2
EPOCHS = (150, 600)
RUNS = [("synth42", s) for s in range(1, 11)] + [(f"synth{s}", 42) for s in range(1, 6)] + [("section8x125", 42)]
RUNS += [(f"c7synth{s}", s) for s in range(5)]


def _env(src: Path) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(data: str, run: str) -> dict:
    """The numbers of one finished run that report.json does not hold."""
    import numpy as np

    from topofuse import dataio, downstream, evaluate, network, preprocess, topology

    report = json.loads(Path(run, "report.json").read_text(encoding="utf-8"))
    cfg = dataio.config_from_dict(report["config"])
    _, _, z = dataio.read_matrix_csv(os.path.join(run, "embedding.csv"), "embedding")
    emb = report.get("modality_contribution", {}).get("embeddings", {}).get("summary")
    ds = dataio.load_dataset(*(os.path.join(data, f) for f in ("tra.csv", "coords.csv", "mor.csv", "labels.csv")))
    pre = preprocess.preprocess_dataset(ds, cfg)
    params = network.load_checkpoint(os.path.join(run, "ckpt.npz"))
    # format v4 records the radius in its config, v3 (a --src tree before the change) as epsilon_used
    radius = params.config.epsilon_radius if hasattr(params, "config") else params.epsilon_used
    graph = topology.build_spatial_graph(ds.coords, radius)
    x_hat = downstream.denoise(params, pre, graph)
    truth_cols, _, truth = dataio.read_matrix_csv(os.path.join(data, "truth_tra.csv"), "truth")
    truth = truth[:, [truth_cols.index(g) for g in pre.gene_ids]]
    noisy = ds.tra[:, [ds.gene_ids.index(g) for g in pre.gene_ids]]

    def mean_gene_corr(a, b):
        keep = (a.std(axis=0) > 0) & (b.std(axis=0) > 0)
        return float(np.mean([np.corrcoef(a[:, j], b[:, j])[0, 1] for j in np.flatnonzero(keep)]))

    def median_contribution(mat):
        mc = evaluate.modality_contribution([mat], ds.labels, seed=cfg.seed)
        return mc.summary[next(iter(mc.summary))]["median"]

    es, _ = network.forward_all(params, pre.tra, pre.mor, network.normalized_adjacency(graph))
    ratio_in = median_contribution(pre.tra) / median_contribution(pre.mor)
    ratio_emb = median_contribution(es.y_tra) / median_contribution(es.y_mor)
    return {
        "mean_z_norm": float(np.sqrt((z * z).sum(axis=1)).mean()),
        "c7_ratio": emb["tra"]["median"] / emb["mor"]["median"] if emb else None,
        "ratio_in": ratio_in,
        "ratio_emb": ratio_emb,
        "c7_quotient": ratio_emb / ratio_in,
        "c9_gap": mean_gene_corr(x_hat, truth) - mean_gene_corr(noisy, truth),
    }


def one_run(src: Path, work: Path, dataset: str, seed: int, epochs: int) -> dict:
    out = work / f"{dataset}-seed{seed}-e{epochs}"
    data = work / dataset
    cmd = [sys.executable, "-m", "topofuse", "report", "--data", str(data), "--out", str(out), "--threads", "1"]
    cmd += ["--set", f"seed={seed}", "--set", f"epochs={epochs}"]
    proc = subprocess.run(cmd, env=_env(src), capture_output=True, text=True)
    row = {"dataset": dataset, "train_seed": seed, "epochs": epochs, "exit": proc.returncode}
    if proc.returncode != 0:
        row["stderr"] = proc.stderr.strip().splitlines()[-1:]
        print(f"{out.name}: exit {proc.returncode} {row['stderr']}", file=sys.stderr)
        return row
    metrics = json.loads((out / "report.json").read_text(encoding="utf-8"))["metrics"]
    row["ari"], row["mrre"] = metrics["ari"], metrics["mrre"]
    row["c6_pass"] = row["ari"] >= 0.80 and row["mrre"] <= 4.5
    probe = subprocess.run(
        [sys.executable, __file__, "--measure", str(data), str(out)], env=_env(src), capture_output=True, text=True, check=True
    )
    row.update(json.loads(probe.stdout.splitlines()[-1]))
    print(
        f"{out.name}: ARI {row['ari']:.4f} MRRE {row['mrre']:.4f} gap {row['c9_gap']:+.4f}"
        f" c7 {row['ratio_in']:.2f}->{row['ratio_emb']:.2f}",
        file=sys.stderr,
    )
    return row


def main(argv) -> int:
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(*argv[1:3])))
        return 0
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("tag")
    ap.add_argument("--src", type=Path, default=REPO / "src")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, flags in DATASETS.items():
            subprocess.run(
                [sys.executable, "-m", "topofuse", "synth", "--out", str(work / name), "--threads", "1", *flags],
                env=_env(src), check=True, capture_output=True,
            )
        jobs = [(d, s, e) for e in EPOCHS for d, s in RUNS]
        with ThreadPoolExecutor(JOBS) as pool:
            rows = list(pool.map(lambda job: one_run(src, work, *job), jobs))
    out = Path(f"BENCH_seeds_{args.tag}.json")
    out.write_text(json.dumps({"epochs": list(EPOCHS), "runs": rows}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
