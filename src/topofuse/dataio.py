"""CSV/JSON/SVG input and output for spot-level datasets and run artifacts.

All tabular files are plain CSV with a header row; the first column holds the
spot id. Numbers are written with %.17g so a load/write cycle is lossless.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateSpotId,
    InvalidDataset,
    IoFailure,
    MissingFile,
    NonNumericCell,
    OutOfRange,
    RowCountMismatch,
    UnknownKey,
)

FLOAT_FMT = "%.17g"


@dataclass
class SpotDataset:
    """In-memory dataset: expression, optional morphology, spot coordinates."""

    tra: np.ndarray
    coords: np.ndarray
    spot_ids: list[str]
    gene_ids: list[str]
    mor: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        n = self.tra.shape[0]
        if n < 2:
            raise InvalidDataset("need at least 2 spots")
        if len(self.spot_ids) != n or self.coords.shape[0] != n:
            raise RowCountMismatch("spot ids, expression and coordinates disagree on row count")
        if self.coords.shape[1] != 2:
            raise InvalidDataset("coordinates must have exactly 2 columns")
        if len(self.gene_ids) != self.tra.shape[1]:
            raise RowCountMismatch("gene id count does not match expression columns")
        if self.mor is not None and self.mor.shape[0] != n:
            raise RowCountMismatch("morphology row count does not match expression")
        if self.labels is not None and len(self.labels) != n:
            raise RowCountMismatch("label count does not match expression")
        for name, mat in (("tra", self.tra), ("coords", self.coords), ("mor", self.mor)):
            if mat is not None and not np.all(np.isfinite(mat)):
                raise NonNumericCell(f"non-finite value in {name}")

    @property
    def n_spots(self) -> int:
        return self.tra.shape[0]


@dataclass(frozen=True)
class RunConfig:
    """Validated hyperparameters for one run.

    The defaults target a 10x-style section; epsilon_radius "auto" picks the
    smallest radius giving the median spot at least 4 spatial neighbors.
    `explicit` records which keys were set by the user rather than filled
    from defaults; it is ignored for equality so round-trips compare clean.
    """

    k_tr: int = 7
    k_mo: int = 7
    r_u_tr: float = 0.1
    r_u_mo: float = 0.1
    nu: float = 0.05
    d_emb: int = 72
    theta: float = 0.9
    lambda_: float = 0.01
    alpha: float = 2.0
    tau: int = 50
    n_mlp: int = 1
    lr: float = 0.001
    epochs: int = 600
    seed: int = 42
    epsilon_radius: float | str = "auto"
    n_clusters: int = 7
    refine: bool = False
    fusion_mode: str = "sum"
    explicit: frozenset = field(default_factory=frozenset, compare=False, repr=False)

    def __post_init__(self):
        _validate_config_values(dataclasses.asdict(self))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("explicit")
        return d


# Value kind per config key: its default's type. epsilon_radius, a positive
# number or "auto", is checked on its own.
_KINDS = {f.name: type(f.default) for f in dataclasses.fields(RunConfig) if f.name != "explicit"}
_KINDS["epsilon_radius"] = object


def _validate_config_values(d: dict):
    def bad(key, why):
        raise OutOfRange(f"config key {key!r}: {why}")

    for key, kind in _KINDS.items():
        v = d[key]
        if kind is int:
            if isinstance(v, bool) or not isinstance(v, int):
                bad(key, f"expected integer, got {v!r}")
        elif kind is float:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                bad(key, f"expected number, got {v!r}")
            if not math.isfinite(float(v)):
                bad(key, "must be finite")
        elif kind is bool:
            if not isinstance(v, bool):
                bad(key, f"expected true/false, got {v!r}")
        elif kind is str:
            if not isinstance(v, str):
                bad(key, f"expected string, got {v!r}")

    for key in ("k_tr", "k_mo", "d_emb", "n_mlp", "epochs", "n_clusters"):
        if d[key] < 1:
            bad(key, "must be a positive integer")
    for key in ("r_u_tr", "r_u_mo"):
        if not 0.0 < d[key] <= 1.0:
            bad(key, "must lie in (0, 1]")
    if d["nu"] <= 0.0:
        bad("nu", "must be positive")
    if not 0.0 <= d["theta"] <= 1.0:
        bad("theta", "must lie in [0, 1]")
    if d["lambda_"] < 0.0:
        bad("lambda_", "must be nonnegative")
    if d["alpha"] < 0.0:
        bad("alpha", "must be nonnegative")
    if d["tau"] < 0:
        bad("tau", "must be nonnegative")
    if d["lr"] < 0.0:
        bad("lr", "must be nonnegative")
    if d["seed"] < 0:
        bad("seed", "must be nonnegative")
    eps = d["epsilon_radius"]
    if isinstance(eps, str):
        if eps != "auto":
            bad("epsilon_radius", f'expected a positive number or "auto", got {eps!r}')
    elif isinstance(eps, bool) or not isinstance(eps, (int, float)) or not eps > 0:
        bad("epsilon_radius", f'expected a positive number or "auto", got {eps!r}')
    if d["fusion_mode"] not in ("sum", "concat"):
        bad("fusion_mode", f'expected "sum" or "concat", got {d["fusion_mode"]!r}')


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from a flat mapping, rejecting unknown keys."""
    unknown = sorted(set(d) - set(_KINDS))
    if unknown:
        raise UnknownKey(f"unknown config keys: {', '.join(unknown)}")
    values = {k: d[k] for k in d}
    # JSON has no int/float distinction worth fighting over; coerce whole floats.
    for key, kind in _KINDS.items():
        if key in values and kind is int and isinstance(values[key], float) and not isinstance(values[key], bool):
            if float(values[key]).is_integer():
                values[key] = int(values[key])
    return RunConfig(**values, explicit=frozenset(values))


def load_config(path: str) -> dict:
    """Read a config file's flat JSON object; config_from_dict validates it."""
    if not os.path.isfile(path):
        raise MissingFile(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:  # JSON text is UTF-8
        raise NonNumericCell(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise NonNumericCell(f"config {path} must hold a flat JSON object")
    return raw


def read_matrix_csv(path: str, what: str = "matrix") -> tuple[list[str], list[str], np.ndarray]:
    """Read a CSV into (column names, row ids, float matrix)."""
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


def _align(ids: list[str], other_ids: list[str], other: np.ndarray, what: str, ref: str) -> np.ndarray:
    index = {sid: i for sid, i in zip(other_ids, range(len(other_ids)))}
    missing = [sid for sid in ids if sid not in index]
    if missing:
        raise RowCountMismatch(
            f"{what} is missing {len(missing)} spot id(s) present in {ref}, e.g. {missing[0]!r}"
        )
    return other[[index[sid] for sid in ids]]


def _integer_labels(values: np.ndarray, path: str) -> np.ndarray:
    rounded = np.rint(values)
    if not np.allclose(values, rounded, rtol=0.0, atol=1e-9):
        raise NonNumericCell(f"labels in {path} must be integers")
    return rounded.astype(np.int64)


def load_dataset(
    tra_path: str,
    coords_path: str,
    mor_path: str | None = None,
    labels_path: str | None = None,
) -> SpotDataset:
    """Load expression + coordinates (+ optional morphology and labels).

    Rows follow the order of the expression file; the other files must cover
    every expression spot id and may hold extras, which are dropped.
    """
    gene_ids, spot_ids, tra = read_matrix_csv(tra_path, "expression")
    _, coord_ids, coords = read_matrix_csv(coords_path, "coordinates")
    if coords.shape[1] != 2:
        raise InvalidDataset(f"coordinates file {coords_path} must have exactly x and y columns")
    coords = _align(spot_ids, coord_ids, coords, "coordinates", "expression")

    mor = None
    if mor_path is not None:
        _, mor_ids, mor_raw = read_matrix_csv(mor_path, "morphology")
        mor = _align(spot_ids, mor_ids, mor_raw, "morphology", "expression")

    labels = None
    if labels_path is not None:
        _, label_ids, lab_raw = read_matrix_csv(labels_path, "labels")
        lab = _align(spot_ids, label_ids, lab_raw, "labels", "expression")[:, 0]
        labels = _integer_labels(lab, labels_path)

    return SpotDataset(tra=tra, coords=coords, spot_ids=spot_ids, gene_ids=gene_ids, mor=mor, labels=labels)


# Paths open_for_write opened inside the active delete_on_error block; None outside one.
_written: list[str] | None = None


@contextlib.contextmanager
def open_for_write(path: str, binary: bool = False):
    """Open `path` for writing text (or bytes), creating its directory first.

    The directory appears only with the first file written into it. Any
    OSError, from the directory, the open or a write, becomes IoFailure
    naming the path. Inside delete_on_error the file is removed again if
    the block fails.
    """
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") if binary else open(path, "w", encoding="utf-8", newline="") as fh:
            if _written is not None:
                _written.append(path)
            yield fh
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


@contextlib.contextmanager
def delete_on_error():
    """Remove every file open_for_write opened in the block if the block raises.

    As make's .DELETE_ON_ERROR: a failed command leaves no partial artifacts
    that a later command could take for a finished run's.
    """
    global _written
    _written = written = []
    try:
        yield
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    finally:
        _written = None


def write_matrix_csv(path: str, row_ids: list[str], col_names: list[str], m: np.ndarray):
    if m.shape != (len(row_ids), len(col_names)):
        raise RowCountMismatch(f"matrix shape {m.shape} does not match ids for {path}")
    with open_for_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["spot_id"] + list(col_names))
        for sid, row in zip(row_ids, m):
            w.writerow([sid] + [FLOAT_FMT % v for v in row])


def read_spot_csv(
    path: str, what: str, ref_ids: list[str] | None, ref: str | None
) -> tuple[list[str], np.ndarray]:
    """Read an `embedding` or `labels` CSV with its rows joined to `ref_ids` by spot_id.

    The file must hold exactly the reference ids, in any order; `ref` names
    where they came from. `ref_ids` None keeps the file's own rows. Labels
    come back as an int64 vector, after the integer check of load_dataset.
    """
    _, ids, m = read_matrix_csv(path, what)
    if ref_ids is not None:
        known = set(ref_ids)
        extra = [sid for sid in ids if sid not in known]
        if extra:
            raise RowCountMismatch(
                f"{what} file {path} has {len(extra)} spot id(s) absent from {ref}, e.g. {extra[0]!r}"
            )
        m = _align(ref_ids, ids, m, f"{what} file {path}", ref)
        ids = list(ref_ids)
    if what == "labels":
        return ids, _integer_labels(m[:, 0], path)
    return ids, m


def write_labels_csv(path: str, spot_ids: list[str], labels: np.ndarray):
    # %.17g prints an integer-valued float as its integer digits.
    write_matrix_csv(path, spot_ids, ["label"], np.asarray(labels, dtype=np.float64).reshape(-1, 1))


def write_markers_csv(path: str, rows: list):
    """Write marker rows of (cluster, rank, gene_id, importance)."""
    with open_for_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["cluster", "rank", "gene_id", "importance"])
        for cluster, rank, gene_id, imp in rows:
            w.writerow([int(cluster), int(rank), gene_id, FLOAT_FMT % imp])


def write_losses_csv(path: str, history: list):
    """Write one row per training epoch; a single-modality run leaves l_topo_mor empty."""
    cols = ["epoch", "l_topo_tra", "l_topo_mor", "l_recon", "total"]
    with open_for_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for rec in history:
            w.writerow([rec["epoch"]] + ["" if rec[c] is None else FLOAT_FMT % rec[c] for c in cols[1:]])


def write_deconvolution_csv(
    path: str, spot_ids: list[str], cluster_ids: list, weights: np.ndarray, impurity: np.ndarray
):
    cols = [f"w_{c}" for c in cluster_ids] + ["weight_dispersion"]
    write_matrix_csv(path, spot_ids, cols, np.column_stack([np.asarray(weights), np.asarray(impurity)]))


def write_json(path: str, payload: dict):
    with open_for_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_dataset(ds: SpotDataset, out_dir: str):
    """Write a dataset as the tra/coords(/mor/labels) CSVs that load_dataset reads."""
    write_matrix_csv(os.path.join(out_dir, "tra.csv"), ds.spot_ids, ds.gene_ids, ds.tra)
    write_matrix_csv(os.path.join(out_dir, "coords.csv"), ds.spot_ids, ["x", "y"], ds.coords)
    if ds.mor is not None:
        cols = [f"m{i}" for i in range(ds.mor.shape[1])]
        write_matrix_csv(os.path.join(out_dir, "mor.csv"), ds.spot_ids, cols, ds.mor)
    if ds.labels is not None:
        write_labels_csv(os.path.join(out_dir, "labels.csv"), ds.spot_ids, ds.labels)


def _label_palette(n: int) -> list[str]:
    import colorsys

    # Golden-angle hue walk; value cycles so nearby indices stay distinguishable.
    colors = []
    for i in range(n):
        r, g, b = colorsys.hsv_to_rgb((i * 0.61803398875) % 1.0, 0.65, (0.75, 0.92, 0.58)[i % 3])
        colors.append("#%02x%02x%02x" % (round(r * 255), round(g * 255), round(b * 255)))
    return colors


def plot_scatter(points: np.ndarray, labels: np.ndarray, path: str, size: int = 520):
    """Write an SVG scatter of `points` with one fill color per distinct label."""
    pts = np.asarray(points, dtype=np.float64)
    labs = np.asarray(labels)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise RowCountMismatch("plot_scatter expects an N x 2 matrix")
    if len(labs) != pts.shape[0]:
        raise RowCountMismatch("labels do not match points")
    if len(labs) and labs.min() < 0:
        raise OutOfRange("labels must be nonnegative")
    uniq = sorted(set(int(v) for v in labs))
    palette = _label_palette(len(uniq))
    color_of = {lab: palette[i] for i, lab in enumerate(uniq)}

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    pad = 0.05 * span
    scale = (size - 2 * 10) / (span + 2 * pad)

    def sx(x):
        return 10 + (x - lo[0] + pad) * scale

    def sy(y):
        # SVG y grows downward; flip so the plot reads like a map.
        return size - 10 - (y - lo[1] + pad) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for (x, y), lab in zip(pts, labs):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="{color_of[int(lab)]}"/>'
        )
    parts.append("</svg>")
    with open_for_write(path) as fh:
        fh.write("\n".join(parts) + "\n")
