#!/usr/bin/env bash
# Check that the working tree's src/ writes the same bytes as the src/ of a git ref.
#
# usage: scripts/same_bytes.sh REF        (e.g. scripts/same_bytes.sh HEAD~1)
#
# Extracts REF's src/ with `git archive` into a temporary directory, leaving
# the repository and its .git untouched. Runs one command set on both trees
# with --threads 1 and the same relative --out paths:
#   - synth --seed 42 for the 4x50, 8x125 and 4x200 sections;
#   - report on 4x50 at the default config and at epochs=150, and on 8x125
#     at epochs=20, with and without its labels.csv (the modality
#     contributions fit the dataset's labels, or without them the clusters');
#   - train (epochs=40) -> cluster (refine=true) -> visualize -> deconvolve
#     -> markers -> trajectory -> evaluate on 4x200;
#   - report (epochs=20) on a copy of 4x50 whose spot ids need CSV quoting
#     (each id gets `, "q"` appended, rewritten through Python's csv module),
#     and evaluate on that report's embedding.csv and labels.csv: the quoted
#     ids go through the cell-by-cell reader and the quoting writer.
# Then runs the working tree's 8x125 report and the 4x200 train, visualize and
# markers once more under `taskset -c 0` (visualize and markers on the first
# pass's cluster labels): on one CPU `report` draws the visualization inline
# instead of in its forked child, `train` and `report` draw each training epoch
# and `visualize` each of its epochs inline instead of in a forked epoch feeder,
# and `markers` computes every knockout itself instead of half in a forked
# child, so both paths are checked against REF. Compares the output trees
# with `diff -rq`, manifests included, except the checkpoints (`ckpt.*`): each
# tree reads its own with its own `load_checkpoint`, and the tensors, theta,
# fusion_mode and the spatial radius it records must be exactly equal, so a
# change of checkpoint format still shows "same model, same outputs" (from
# format v4 on all three come from the model's config, before it from the
# model's own attributes and `epsilon_used`). markers
# reads the checkpoint through a link named `ckpt.any`, so its manifest records
# the same argv whatever the format's file name.
# Prints the sha256 of every embedding.csv and report.json of the working
# tree and the line count of src/topofuse/*.py on each side, runs every
# comparison (ref against the working tree, and against each one-CPU run, for
# the outputs, and for report and train also the checkpoints), names each
# differing file once, then the JSON pointer of each differing key of every
# differing .json file (at most 10 per file) with the largest relative
# difference of its differing numbers, and for each differing .csv file of the
# same header, rows and ids the largest relative difference of its numeric
# cells, and exits 1 if any comparison differs. Set PYTHON to pick the interpreter.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
repo=$(git rev-parse --show-toplevel)
python=${PYTHON:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/ref" "$work/out-ref" "$work/out-new"
git -C "$repo" archive "$1" src | tar -x -C "$work/ref"

# quote_ids SRC_DIR DST_DIR: the dataset's CSVs with `, "q"` appended to each
# spot id, written by the csv module, which quotes every such id
quote_ids() {
    "$python" - "$1" "$2" <<'PY'
import csv
import pathlib
import sys

src, dst = (pathlib.Path(p) for p in sys.argv[1:])
dst.mkdir()
for path in sorted(src.glob("*.csv")):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[0] += ', "q"'
    with open(dst / path.name, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
PY
}

# run_all SRC_DIR OUT_DIR: every command of the set, from OUT_DIR
run_all() {
    local src=$1
    cd "$2"
    tf() {
        local cmd=$1
        shift
        PYTHONPATH="$src" "$python" -m topofuse "$cmd" --threads 1 "$@" >>run.log 2>&1
    }
    tf synth --out d50 --seed 42 --domains 4 --spots-per-domain 50
    tf synth --out d125 --seed 42 --domains 8 --spots-per-domain 125
    tf synth --out d200 --seed 42 --domains 4 --spots-per-domain 200
    tf report --data d50 --out report50
    tf report --data d50 --out report50-e150 --set epochs=150
    tf report --data d125 --out report125-e20 --set epochs=20
    cp -r d125 d125-nolabels
    rm d125-nolabels/labels.csv
    tf report --data d125-nolabels --out report125-nolabels-e20 --set epochs=20
    tf train --data d200 --out train --set epochs=40
    local emb=train/embedding.csv labels=cluster/labels.csv ckpt=ckpt.any
    ln -s "$(ls train/ckpt.*)" "$ckpt"
    tf cluster --data d200 --emb "$emb" --out cluster --set refine=true
    tf visualize --emb "$emb" --labels "$labels" --out visualize
    tf deconvolve --emb "$emb" --labels "$labels" --out deconvolve
    tf markers --data d200 --labels "$labels" --ckpt "$ckpt" --out markers
    tf trajectory --emb "$emb" --labels "$labels" --out trajectory
    tf evaluate --data d200 --emb "$emb" --labels "$labels" --out evaluate
    quote_ids d50 d50-quoted
    tf report --data d50-quoted --out report50-quoted-e20 --set epochs=20
    tf evaluate --data d50-quoted --emb report50-quoted-e20/embedding.csv \
        --labels report50-quoted-e20/labels.csv --out evaluate50-quoted
    rm run.log
}

(run_all "$work/ref/src" "$work/out-ref") &
ref_pid=$!
(run_all "$repo/src" "$work/out-new") &
new_pid=$!
status=0
wait "$ref_pid" || status=1
wait "$new_pid" || status=1
if [ "$status" -ne 0 ]; then
    for side in ref new; do
        if [ -f "$work/out-$side/run.log" ]; then
            echo "--- $side: a command failed; its log ends:" >&2
            tail -n 20 "$work/out-$side/run.log" >&2
        fi
    done
    exit 1
fi

# one CPU: the inline paths, same argv and relative paths as in run_all
mkdir -p "$work/out-inline"
cp -r "$work/out-new/d125" "$work/out-new/d200" "$work/out-new/cluster" "$work/out-inline/"
inline() {
    local cmd=$1
    shift
    if ! (cd "$work/out-inline" && PYTHONPATH="$repo/src" taskset -c 0 "$python" -m topofuse "$cmd" --threads 1 \
        "$@" >run.log 2>&1); then
        echo "--- inline: the one-CPU $cmd failed; its log ends:" >&2
        tail -n 20 "$work/out-inline/run.log" >&2
        exit 1
    fi
}
inline report --data d125 --out report125-e20 --set epochs=20
inline train --data d200 --out train --set epochs=40
(cd "$work/out-inline" && ln -s "$(ls train/ckpt.*)" ckpt.any)
inline visualize --emb train/embedding.csv --labels cluster/labels.csv --out visualize
inline markers --data d200 --labels cluster/labels.csv --ckpt ckpt.any --out markers

# dump_ckpts SRC_DIR OUT_DIR DUMP_DIR: each checkpoint under OUT_DIR, read by
# SRC_DIR's load_checkpoint, written to DUMP_DIR as its tensors plus theta,
# fusion_mode and the radius it records (the config's from format v4 on; in
# v3 the model's attributes and `epsilon_used`), one .npz per run directory
dump_ckpts() {
    PYTHONPATH="$1" "$python" - "$2" "$3" <<'PY'
import pathlib
import sys

import numpy as np

from topofuse.network import load_checkpoint

out, dump = (pathlib.Path(p) for p in sys.argv[1:])
for path in sorted(out.rglob("ckpt.*")):
    if path.is_symlink():
        continue
    params = load_checkpoint(str(path))
    cfg = getattr(params, "config", None)
    theta, fusion_mode, radius = (
        (cfg.theta, cfg.fusion_mode, cfg.epsilon_radius) if cfg else (params.theta, params.fusion_mode, params.epsilon_used)
    )
    tensors = {f"{name}.{t}": getattr(layer, t) for name, layer in params.named_layers() for t in ("w", "b")}
    target = dump / path.parent.relative_to(out)
    target.mkdir(parents=True)
    with open(target / "model.npz", "wb") as fh:
        model = {"theta": theta, "fusion_mode": fusion_mode, "radius": radius}
        np.savez(fh, **{key: np.array(value) for key, value in model.items()}, **tensors)
PY
}
dump_ckpts "$work/ref/src" "$work/out-ref" "$work/ckpt-ref"
dump_ckpts "$repo/src" "$work/out-new" "$work/ckpt-new"
dump_ckpts "$repo/src" "$work/out-inline" "$work/ckpt-inline"

# show_diffs REF_DIR NEW_DIR: for every .json and .csv file both trees hold
# with other bytes, one line per file. JSON: "file: /pointer ..." for each
# differing value, or key present on one side only, then the largest relative
# difference of the differing numbers. CSV whose header, row count and id
# column match: the largest relative difference of its numeric cells and the
# count of other cells that differ; any other CSV: what does not match.
show_diffs() {
    "$python" - "$1" "$2" <<'PY'
import csv
import json
import pathlib
import sys

ref, new = (pathlib.Path(p) for p in sys.argv[1:])


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def walk(a, b, path, worst):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [key for key in b if key not in a]:
            sub = path + "/" + key.replace("~", "~0").replace("/", "~1")
            if key in a and key in b:
                yield from walk(a[key], b[key], sub, worst)
            else:
                yield sub
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from walk(x, y, f"{path}/{i}", worst)
    elif json.dumps(a) != json.dumps(b):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            worst.append(rel(a, b))
        yield path or "/"


def number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_line(a_path, b_path):
    with open(a_path, newline="") as fa, open(b_path, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if not a or not b or a[0] != b[0]:
        return "headers differ"
    if len(a) != len(b):
        return f"{len(a) - 1} rows against {len(b) - 1}"
    if any(len(x) != len(y) or x[0] != y[0] for x, y in zip(a[1:], b[1:])):
        return "row ids or row lengths differ"
    worst, other = 0.0, 0
    for x, y in zip(a[1:], b[1:]):
        for u, v in zip(x[1:], y[1:]):
            fu, fv = number(u), number(v)
            if fu is not None and fv is not None:
                worst = max(worst, rel(fu, fv))
            elif u != v:
                other += 1
    return f"largest relative difference of numeric cells {worst:.3g}; {other} other cells differ"


for path in sorted(p for p in ref.rglob("*") if p.suffix in (".json", ".csv")):
    other = new / path.relative_to(ref)
    if not other.is_file() or path.read_bytes() == other.read_bytes():
        continue
    name = path.relative_to(ref)
    if path.suffix == ".csv":
        print(f"{name}: {csv_line(path, other)}")
        continue
    worst = []
    keys = list(walk(json.loads(path.read_text()), json.loads(other.read_text()), "", worst))
    more = f" (and {len(keys) - 10} more)" if len(keys) > 10 else ""
    numbers = f"; largest relative difference of differing numbers {max(worst):.3g}" if worst else ""
    print(f"{name}: {' '.join(keys[:10]) or '(same values, other bytes)'}{more}{numbers}")
PY
}

(cd "$work/out-new" && find . \( -name embedding.csv -o -name report.json \) | sort | xargs sha256sum)
echo "src/topofuse/*.py lines: $(cat "$work"/ref/src/topofuse/*.py | wc -l) at $1, $(cat "$repo"/src/topofuse/*.py | wc -l) in the working tree"
# every comparison runs, and each differing file is named once
same=0
if ! diff -rq -x 'ckpt.*' "$work/out-ref" "$work/out-new"; then
    same=1
    show_diffs "$work/out-ref" "$work/out-new"
fi
for run in report125-e20 train visualize markers; do
    if ! diff -rq -x 'ckpt.*' "$work/out-ref/$run" "$work/out-inline/$run"; then
        same=1
        show_diffs "$work/out-ref/$run" "$work/out-inline/$run"
    fi
done
for run in report125-e20 train; do
    diff -rq "$work/ckpt-ref/$run" "$work/ckpt-inline/$run" || same=1
done
diff -rq "$work/ckpt-ref" "$work/ckpt-new" || same=1
if [ "$same" -eq 0 ]; then
    echo "same bytes as $1 (checkpoints: same tensors, theta, fusion_mode and radius), one-CPU report, train, visualize and markers included"
else
    echo "outputs differ from $1" >&2
    exit 1
fi
