#!/usr/bin/env python3
"""Benchmark of the topofuse CLI on planted synthetic sections.

usage: python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the benchmark works on the checkout it sits in. It
writes the workload's dataset with `topofuse synth --seed N` (set-up, timed
SETUP_REPEATS times), then runs round(S / round_s) whole rounds of the
workload's CLI processes, one at a time with `--threads 1`. Each child
imports topofuse from this checkout's `src/`. After every round the outputs
are checked against values recomputed in `checks.py`. With `--trace 1` one
more round runs every CLI process through `traced_cli.py` and the per-layer
metrics come from its spans. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json.
Artifacts go to `.bench_out/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from traced_cli import THREAD_VARS

# The parent only runs the checks; keep its BLAS to one thread like the children.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# Rows of the foreign artifacts fed to the last `evaluate` are permuted with
# this fixed seed, so the by-position join fails the same way on every run.
SHUFFLE_SEED = 7

# Why each workload exists is recorded in BENCHMARK.json and the README.
# "round_s": a round's wall time on the reference machine (README). A run
# does round(seconds / round_s) rounds, at least one, so the work per run
# and the attempted count do not depend on the machine's speed or on
# failures. "acceptance": also hold MRRE and denoising to the floors of
# acceptance criteria 6 and 9, which only long enough training on 200
# spots reaches.
WORKLOADS = {
    "section-200": {"domains": 4, "spots": 50, "epochs": 150, "chain": "report", "round_s": 9.5, "acceptance": True},
    "section-1000": {"domains": 8, "spots": 125, "epochs": 20, "chain": "report", "round_s": 32.0, "acceptance": False},
    "stepwise-800": {"domains": 4, "spots": 200, "epochs": 40, "chain": "stepwise", "round_s": 28.0, "acceptance": False},
}
ARI_FLOOR = 0.80
MRRE_CEILING = 4.5
DENOISE_GAP_FLOOR = 0.05


def child_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ENV = child_env()


def spawn(argv, log_path) -> tuple[int, float, float, float]:
    """Run one child to its end: (exit code, wall seconds, its own peak RSS in MB, CPU seconds)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], cwd=log_path.parent, env=ENV, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def check_import(work: Path):
    """Children must import topofuse from this checkout, whatever cwd or PYTHONPATH say."""
    expected = (SRC / "topofuse" / "__init__.py").resolve()
    probe = subprocess.run(
        [sys.executable, "-c", "import topofuse, topofuse.cli, topofuse.downstream; print(topofuse.__file__)"],
        cwd=work, env=ENV, capture_output=True, text=True, timeout=120,
    )
    got = probe.stdout.strip()
    if probe.returncode != 0 or not got or Path(got).resolve() != expected:
        sys.exit(
            f"benchmark: child processes import topofuse from {got or '(nowhere)'}, "
            f"expected {expected}\n{probe.stderr.strip()[-800:]}"
        )


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_in(run_dir: Path) -> Path:
    """The checkpoint a run wrote, whatever the extension of its format."""
    found = sorted(run_dir.glob("ckpt.*"))
    return found[0] if found else run_dir / "ckpt.json"


class Round:
    """One pass over the workload's operations, with their checks."""

    def __init__(self, work: Path, data: Path, ds: checks.Dataset, wl: dict, traced_names):
        self.dir = work
        self.data = data
        self.ds = ds
        self.wl = wl
        self.traced_names = traced_names
        self.attempted = 0
        self.failed = []
        self.errors = []
        self.run_s = 0.0
        self.peak_rss_mb = 0.0
        self.spans = []
        self.timings = []
        self.quality = {}
        self.embedding_digest = None
        work.mkdir(parents=True)

    def cli(self, name: str, args: list) -> bool:
        """One CLI process; its wall time and peak RSS count towards the round."""
        if self.traced_names is None:
            argv = [sys.executable, "-m", "topofuse", *args, "--threads", "1"]
        else:
            spans = self.dir / f"{name}.spans.json"
            self.spans.append(spans)
            argv = [sys.executable, HERE / "traced_cli.py", spans, ",".join(self.traced_names), "--", *args, "--threads", "1"]
        code, seconds, rss, cpu = spawn(argv, self.dir / f"{name}.log")
        self.timings.append(f"{name} {seconds:.2f}s wall {cpu:.2f}s cpu {rss:.0f}MB")
        self.run_s += seconds
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return self._count(name, code)

    def _count(self, name: str, code: int) -> bool:
        self.attempted += 1
        if code != 0:
            self.failed.append(f"{name} exited {code}")
        return code == 0

    @contextlib.contextmanager
    def checking(self, what: str):
        try:
            yield
        except (checks.CheckFailed, OSError, KeyError, ValueError, IndexError) as e:
            self.errors.append(f"{what}: {type(e).__name__}: {e}")

    def denoise(self, ckpt: Path):
        """Denoised expression from the run's checkpoint, scored against the truth."""
        out = self.dir / "denoised.csv"
        code, *_ = spawn([sys.executable, HERE / "denoise.py", self.data, ckpt, out], self.dir / "denoise.log")
        if self._count("denoise", code):
            with self.checking("denoise"):
                corr, gap = checks.denoise_gap(self.ds, out)
                self.quality["denoise_corr"] = corr
                if self.wl["acceptance"]:
                    checks.require(gap >= DENOISE_GAP_FLOOR, f"denoising gains {gap:+.4f} over raw counts (< {DENOISE_GAP_FLOOR})")

    def finish(self, run_dir: Path, trained: bool):
        """Denoise is attempted in every round, so each round attempts the same operations."""
        ckpt = checkpoint_in(run_dir)
        if trained:
            with self.checking("artifacts"):
                self.embedding_digest = digest(run_dir / "embedding.csv")
                self.quality["ckpt_bytes"] = ckpt.stat().st_size
        self.denoise(ckpt)

    def check_quality(self, labels, emb: Path, metrics: dict):
        self.quality["ari"] = checks.check_labels(self.ds, labels, metrics["ari"])
        self.quality["mrre"] = checks.check_embedding(self.ds, emb, metrics["mrre"])
        checks.require(self.quality["ari"] >= ARI_FLOOR, f"ARI {self.quality['ari']:.4f} < {ARI_FLOOR}")
        if self.wl["acceptance"]:
            checks.require(self.quality["mrre"] <= MRRE_CEILING, f"MRRE {self.quality['mrre']:.4f} > {MRRE_CEILING}")


def epochs_args(wl) -> list:
    return ["--set", f"epochs={wl['epochs']}"]


def report_round(r: Round):
    out = r.dir / "report"
    ok = r.cli("report", ["report", "--data", r.data, "--out", out, *epochs_args(r.wl)])
    if ok:
        with r.checking("report"):
            rep = checks.read_json(out / "report.json")
            labels = checks.read_labels(out / "labels.csv", r.ds.ids, "labels.csv")
            r.check_quality(labels, out / "embedding.csv", rep["metrics"])
            checks.check_deconvolution(r.ds, out / "embedding.csv", labels, out / "deconvolution.csv")
            checks.check_markers(r.ds, labels, out / "markers.csv")
            checks.check_matrix(r.ds, out / "vis.csv", 2)
            checks.check_matrix(r.ds, out / "contributions.csv", 4)
            checks.check_paga(labels, sorted(set(labels.tolist())), rep["paga_edges"])
    r.finish(out, ok)


def write_shuffled(src: Path, dst: Path):
    """The same table with its data rows in a fixed random order, as another tool might write it."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    order = np.random.default_rng(SHUFFLE_SEED).permutation(len(lines) - 1)
    dst.write_text(lines[0] + "".join(lines[1 + i] for i in order), encoding="utf-8")


def stepwise_round(r: Round):
    d = r.dir
    train, clus = d / "train", d / "cluster"
    emb, labels_csv = train / "embedding.csv", clus / "labels.csv"
    ok = {}
    ok["train"] = r.cli("train", ["train", "--data", r.data, "--out", train, *epochs_args(r.wl)])
    ckpt = checkpoint_in(train)
    ok["cluster"] = r.cli("cluster", ["cluster", "--data", r.data, "--emb", emb, "--out", clus, "--set", "refine=true"])
    ok["visualize"] = r.cli("visualize", ["visualize", "--emb", emb, "--labels", labels_csv, "--out", d / "visualize"])
    ok["deconvolve"] = r.cli("deconvolve", ["deconvolve", "--emb", emb, "--labels", labels_csv, "--out", d / "deconvolve"])
    ok["markers"] = r.cli("markers", ["markers", "--data", r.data, "--labels", labels_csv, "--ckpt", ckpt, "--out", d / "markers"])
    ok["trajectory"] = r.cli("trajectory", ["trajectory", "--emb", emb, "--labels", labels_csv, "--out", d / "trajectory"])
    ok["evaluate"] = r.cli("evaluate", ["evaluate", "--data", r.data, "--emb", emb, "--labels", labels_csv, "--out", d / "evaluate"])
    foreign = d / "foreign"
    foreign.mkdir()
    if ok["train"] and ok["cluster"]:
        write_shuffled(emb, foreign / "embedding.csv")
        write_shuffled(labels_csv, foreign / "labels.csv")
    shuffled = d / "evaluate-shuffled"
    ok["evaluate-shuffled"] = r.cli(
        "evaluate-shuffled",
        ["evaluate", "--data", r.data, "--emb", foreign / "embedding.csv", "--labels", foreign / "labels.csv", "--out", shuffled],
    )

    r.finish(train, ok["train"])
    labels = None
    if ok["cluster"]:
        with r.checking("cluster"):
            labels = checks.read_labels(labels_csv, r.ds.ids, "cluster labels.csv")
    if labels is None:
        return
    if ok["evaluate"]:
        with r.checking("evaluate"):
            r.check_quality(labels, emb, checks.read_json(d / "evaluate" / "metrics.json"))
    if ok["visualize"]:
        with r.checking("visualize"):
            checks.check_matrix(r.ds, d / "visualize" / "vis.csv", 2)
    if ok["deconvolve"]:
        with r.checking("deconvolve"):
            checks.check_deconvolution(r.ds, emb, labels, d / "deconvolve" / "deconvolution.csv")
    if ok["markers"]:
        with r.checking("markers"):
            checks.check_markers(r.ds, labels, d / "markers" / "markers.csv")
    if ok["trajectory"]:
        with r.checking("trajectory"):
            paga = checks.read_json(d / "trajectory" / "paga.json")
            checks.check_paga(labels, paga["cluster_ids"], paga["edges"])
    if ok["evaluate-shuffled"] and "ari" in r.quality:
        # Joined by spot_id, the permuted files carry the same labels and
        # embedding, so the metrics must not change. Until the program stops
        # joining by row position they do: the operation counts as failed.
        with r.checking("evaluate-shuffled"):
            got = checks.read_json(shuffled / "metrics.json")
            if not (checks.close(got["ari"], r.quality["ari"]) and checks.close(got["mrre"], r.quality["mrre"])):
                r.failed.append(f"evaluate-shuffled reports ARI {got['ari']:.4f}, MRRE {got['mrre']:.4f} for rows joined by position")


CHAINS = {"report": report_round, "stepwise": stepwise_round}


def setup(wl: dict, seed: int, work: Path) -> tuple[Path, float]:
    """Write the dataset SETUP_REPEATS times; returns its directory and the median time."""
    times, digests = [], set()
    for i in range(SETUP_REPEATS):
        data = work / f"data{i}"
        args = ["synth", "--out", data, "--seed", seed, "--threads", "1", "--domains", wl["domains"], "--spots-per-domain", wl["spots"]]
        code, seconds, *_ = spawn([sys.executable, "-m", "topofuse", *args], work / f"synth{i}.log")
        if code != 0:
            sys.exit(f"benchmark: topofuse synth exited {code}; see {work / f'synth{i}.log'}")
        times.append(seconds)
        digests.add(digest(data / "tra.csv"))
        if i:
            shutil.rmtree(data)
    if len(digests) != 1:
        sys.exit("benchmark: topofuse synth wrote different data for the same seed")
    return work / "data0", statistics.median(times)


def layer_metrics(span_files: list, overhead: float, spec: list) -> tuple[dict, list]:
    """Inclusive seconds and call counts per traced function, summed over the processes."""
    calls, secs, absent = Counter(), Counter(), set()
    for path in span_files:
        if not path.exists():
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        absent.update(payload["absent"])
        spans = payload["spans"]
        for name, start, end, parent in spans:
            calls[name] += 1
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0 and end is not None:  # outermost call of this name
                secs[name] += end - start
    out = {}
    for m in spec:
        if m["name"] == "trace.overhead_s":
            value = overhead
        else:
            base, kind = m["name"].rsplit(".", 1)
            value = calls[base] if kind == "calls" else secs[base]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, sorted(absent)


def traced_function_names(spec: list) -> list:
    names = {m["name"].rsplit(".", 1)[0] for m in spec if m["name"] != "trace.overhead_s"}
    return sorted(names)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42, help="seed of the synthetic section (default 42)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"], help="length of the run, in whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add a traced round, print per-layer metrics")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    check_import(work)
    data, setup_s = setup(wl, args.seed, work)
    ds = checks.Dataset(data)
    chain = CHAINS[wl["chain"]]

    rounds = []
    for i in range(max(1, round(args.seconds / wl["round_s"]))):
        rounds.append(Round(work / f"round{i}", data, ds, wl, None))
        chain(rounds[-1])
    traced = None
    if args.trace:
        traced = Round(work / "traced", data, ds, wl, traced_function_names(spec["per_layer"]))
        chain(traced)

    everything = rounds + ([traced] if traced else [])
    errors = [e for r in everything for e in r.errors]
    if len({r.embedding_digest for r in everything}) != 1:
        errors.append("embedding.csv differs between rounds of the same seed")
    for r in everything:
        print(f"{r.dir.name}: " + ", ".join(r.timings), file=sys.stderr)
        for f in r.failed:
            print(f"failed: {f}", file=sys.stderr)
    for e in errors:
        print(f"check: {e}", file=sys.stderr)

    run_s = statistics.median(r.run_s for r in rounds)
    if args.trace:
        metrics, absent = layer_metrics(traced.spans, traced.run_s - run_s, spec["per_layer"])
        if absent:
            print(f"absent (no longer bound, reported as 0): {', '.join(absent)}")
    else:
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
            **rounds[0].quality,
        }
        metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"{args.workload} seed {args.seed}: {name} = {m['value']} {m['unit']}")
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(len(r.failed) for r in everything),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
