"""The benchmark harness still fits the program: names it traces, children it runs.

The harness under benchmark/ is read and run here, never edited.
"""

import json
import os
import subprocess
import sys

import numpy as np

from topofuse import cli, network

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmark")
# per-layer names the harness may report as 0: no longer bound in the program
UNBOUND = {"dataio.write_report"}


def _child_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def test_per_layer_names_resolve():
    """Each per-layer name is a function `traced_cli` can wrap; trace.overhead_s is the harness's own."""
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "from run import traced_function_names\n"
        "from traced_cli import Tracer\n"
        f"spec = json.load(open({os.path.join(ROOT, 'BENCHMARK.json')!r}, encoding='utf-8'))\n"
        "names = traced_function_names(spec['per_layer'])\n"
        "print(json.dumps({'names': names, 'absent': Tracer().install(names)}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    untraced = {m["name"] for m in spec["per_layer"]} - {n + s for n in got["names"] for s in (".s", ".calls")}
    assert untraced == {"trace.overhead_s"}
    assert set(got["absent"]) <= UNBOUND


def test_denoise_child_writes_finite_values(tmp_path):
    data, train, out = tmp_path / "data", tmp_path / "train", tmp_path / "denoised.csv"
    base = ["--threads", "1"]
    assert cli.run(["synth", "--out", str(data), "--domains", "4", "--spots-per-domain", "25", "--seed", "3", *base]) == 0
    assert cli.run(["train", "--out", str(train), "--data", str(data), "--set", "epochs=2", *base]) == 0
    ckpt = train / "ckpt.npz"
    child = subprocess.run(
        [sys.executable, os.path.join(BENCH, "denoise.py"), str(data), str(ckpt), str(out)],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    with open(out, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header[1:] == network.load_checkpoint(str(ckpt)).gene_ids
    x_hat = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(1, len(header)), ndmin=2)
    assert x_hat.shape == (100, len(header) - 1)
    assert np.isfinite(x_hat).all()
