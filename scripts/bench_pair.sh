#!/usr/bin/env bash
# Benchmark a git ref against the working tree in alternating pairs.
#
# usage: scripts/bench_pair.sh REF [PAIRS] [OUT]     (defaults: 3 pairs, BENCH.json)
#
# Extracts REF's src/, benchmark/ and BENCHMARK.json with `git archive` into a
# temporary directory, leaving the repository and its .git untouched. Pair i
# (1..PAIRS) runs `benchmark/run.py --workload W --seed i` for every workload
# in BENCHMARK.json, once on REF and once on the working tree: REF first in odd
# pairs, the working tree first in even ones. Each run works on its own
# checkout and imports topofuse from that checkout's src/.
# Writes OUT as JSON: machine (`cpus`, and `affinity_cpus`, the CPUs this
# process may run on, which decide whether `report` starts its worker), the C
# library (`libc`: the heap policy the CLI sets acts only under glibc), Python,
# numpy and BLAS, every run's metrics, and per workload and side the median
# and quartiles of each end-to-end metric. Set PYTHON to pick the interpreter.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 REF [PAIRS] [OUT]" >&2
    exit 2
fi
ref=$1
pairs=${2:-3}
repo=$(git rev-parse --show-toplevel)
out=$(realpath -m "${3:-BENCH.json}")
python=${PYTHON:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/ref"
git -C "$repo" archive "$ref" src benchmark BENCHMARK.json | tar -x -C "$work/ref"
workloads=$("$python" -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")

# A run's last stdout line must be strict JSON (no NaN or Infinity) whose
# "metrics" give every end_to_end metric of BENCHMARK.json a finite number.
# usage: python -c "$check_result" BENCHMARK_JSON LINE; exits 1 naming the fault
check_result='
import json, math, sys

def refuse(constant):
    raise ValueError(f"{constant} is not JSON")

try:
    result = json.loads(sys.argv[2], parse_constant=refuse)
except ValueError as e:
    sys.exit(f"last stdout line is no strict JSON result ({e}): {sys.argv[2][:200]!r}")
metrics = result.get("metrics") if isinstance(result, dict) else None
if not isinstance(metrics, dict):
    sys.exit("last stdout line has no \"metrics\" object")
for name in (m["name"] for m in json.load(open(sys.argv[1], encoding="utf-8"))["end_to_end"]):
    entry = metrics.get(name)
    value = entry.get("value") if isinstance(entry, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        sys.exit(f"end-to-end metric {name} is {value!r}, not a finite number")
'

# fail SIDE WORKLOAD PAIR REASON: name the run, show the stderr tail, exit 1
fail() {
    echo "bench_pair: pair $3, $2, $1: $4" >&2
    tail -n 20 "$work/stderr.log" >&2
    exit 1
}

# run SIDE CHECKOUT WORKLOAD PAIR: one benchmark run, its last stdout line kept
run() {
    local side=$1 checkout=$2 workload=$3 pair=$4 line reason
    echo "pair $pair, $workload, $side" >&2
    line=$("$python" "$checkout/benchmark/run.py" --workload "$workload" --seed "$pair" 2>>"$work/stderr.log" | tail -n 1) ||
        fail "$side" "$workload" "$pair" "benchmark/run.py failed"
    reason=$("$python" -c "$check_result" "$repo/BENCHMARK.json" "$line" 2>&1) || fail "$side" "$workload" "$pair" "$reason"
    printf '{"pair": %d, "seed": %d, "workload": "%s", "side": "%s", "result": %s}\n' \
        "$pair" "$pair" "$workload" "$side" "$line" >>"$work/runs.jsonl"
}

for pair in $(seq 1 "$pairs"); do
    for workload in $workloads; do
        if [ $((pair % 2)) -eq 1 ]; then
            run ref "$work/ref" "$workload" "$pair"
            run new "$repo" "$workload" "$pair"
        else
            run new "$repo" "$workload" "$pair"
            run ref "$work/ref" "$workload" "$pair"
        fi
    done
done

"$python" - "$work/runs.jsonl" "$out" "$ref" "$(git -C "$repo" rev-parse "$ref")" <<'EOF'
import json
import os
import platform
import statistics
import sys

import numpy as np

runs_path, out, ref, ref_sha = sys.argv[1:]
runs = [json.loads(line) for line in open(runs_path, encoding="utf-8")]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
summary = {}
for r in runs:
    per_side = summary.setdefault(r["workload"], {}).setdefault(r["side"], {})
    for name, m in r["result"]["metrics"].items():
        per_side.setdefault(name, []).append(m["value"])
for per_workload in summary.values():
    for side, metrics in per_workload.items():
        stats = {}
        for name, values in metrics.items():
            q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
            stats[name] = {"median": statistics.median(values), "q1": q[0], "q3": q[2], "runs": len(values)}
        per_workload[side] = stats
report = {
    "ref": ref,
    "ref_commit": ref_sha,
    "new": "working tree",
    "machine": {
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "system": platform.platform(),
        "libc": list(platform.libc_ver()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    },
    "pairs": max(r["pair"] for r in runs),
    "order": "pair i runs seed i; ref first in odd pairs, new first in even pairs",
    "summary": summary,
    "runs": runs,
}
with open(out, "w", encoding="utf-8") as fh:
    json.dump(report, fh, indent=1)
    fh.write("\n")
for workload, sides in summary.items():
    for name in sides.get("new", {}):
        a, b = sides.get("ref", {}).get(name), sides["new"][name]
        if a:
            print(f"{workload}: {name} ref {a['median']:.4g} -> new {b['median']:.4g}")
print(f"wrote {out}")
EOF
