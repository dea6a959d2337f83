import json
import re

import numpy as np
import pytest

from topofuse import dataio
from topofuse.errors import (
    DuplicateSpotId,
    InvalidDataset,
    MissingFile,
    NonNumericCell,
    OutOfRange,
    RowCountMismatch,
    UnknownKey,
)


class TestRunConfig:
    def test_config_from_dict_tracks_explicit_keys_and_ignores_them_for_equality(self):
        cfg = dataio.config_from_dict({"nu": 1.0, "epochs": 5})
        assert cfg.nu == 1.0 and cfg.epochs == 5
        assert cfg.explicit == frozenset({"nu", "epochs"})
        assert cfg == dataio.RunConfig(nu=1.0, epochs=5)
        assert "explicit" not in cfg.to_dict()

    @pytest.mark.parametrize(
        "kv",
        [
            {"nu": 0.0},
            {"nu": -1.0},
            {"theta": 1.5},
            {"lambda_": -0.1},
            {"alpha": -1.0},
            {"r_u_tr": 0.0},
            {"r_u_mo": 1.5},
            {"epochs": 0},
            {"d_emb": 0},
            {"lr": -0.001},
            {"seed": -1},
            {"epsilon_radius": "never"},
            {"epsilon_radius": -2.0},
            {"fusion_mode": "mean"},
            {"epochs": 2.5},
            {"refine": 1},
        ],
    )
    def test_invalid_values_rejected(self, kv):
        with pytest.raises(OutOfRange):
            dataio.config_from_dict(kv)

    # per key: a value of the right kind out of range (None where the kind has
    # no range), and a value of the wrong kind
    _BAD = {
        "k_tr": (0, "7"),
        "k_mo": (-1, 7.5),
        "r_u_tr": (0.0, "0.1"),
        "r_u_mo": (1.5, True),
        "nu": (0.0, "0.05"),
        "d_emb": (0, True),
        "theta": (-0.1, [0.9]),
        "lambda_": (-0.1, "0.01"),
        "alpha": (-1.0, "2"),
        "tau": (-1, 50.5),
        "n_mlp": (0, "1"),
        "lr": (-0.001, False),
        "epochs": (0, 2.5),
        "seed": (-1, "42"),
        "epsilon_radius": (0.0, True),
        "n_clusters": (0, "7"),
        "refine": (None, 1),
        "fusion_mode": ("mean", 1),
    }

    def test_bad_value_table_covers_every_key(self):
        assert list(self._BAD) == list(dataio.RunConfig().to_dict())

    @pytest.mark.parametrize("key, value", [(k, v) for k, pair in _BAD.items() for v in pair if v is not None])
    def test_every_key_rejects_out_of_range_and_wrong_kind(self, key, value):
        with pytest.raises(OutOfRange, match=f"config key '{key}'"):
            dataio.config_from_dict({key: value})

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(UnknownKey):
            dataio.config_from_dict({"nu": 1.0, "bogus": 3})

    def test_config_from_dict_coerces_whole_json_floats(self):
        cfg = dataio.config_from_dict({"epochs": 10.0, "nu": 0.5})
        assert cfg.epochs == 10 and isinstance(cfg.epochs, int)

    def test_round_trip_through_file(self, tmp_path):
        cfg = dataio.config_from_dict({"nu": 0.2, "epochs": 33, "epsilon_radius": 1.25, "refine": True})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert dataio.config_from_dict(dataio.load_config(str(path))) == cfg

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(MissingFile):
            dataio.load_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(NonNumericCell):
            dataio.load_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]\n")
        with pytest.raises(NonNumericCell):
            dataio.load_config(str(arr))


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path, rng):
        m = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-12, 12, size=(7, 4))
        path = tmp_path / "m.csv"
        ids = [f"s{i}" for i in range(7)]
        cols = ["a", "b", "c", "d"]
        dataio.write_matrix_csv(str(path), ids, cols, m)
        cols2, ids2, m2 = dataio.read_matrix_csv(str(path))
        assert cols2 == cols and ids2 == ids
        assert np.array_equal(m2, m)

    def test_write_shape_mismatch(self, tmp_path):
        with pytest.raises(RowCountMismatch):
            dataio.write_matrix_csv(str(tmp_path / "m.csv"), ["a"], ["x"], np.zeros((2, 1)))

    def test_read_errors(self, tmp_path):
        with pytest.raises(MissingFile):
            dataio.read_matrix_csv(str(tmp_path / "gone.csv"))
        p = tmp_path / "dup.csv"
        p.write_text("spot_id,x\na,1\na,2\n")
        with pytest.raises(DuplicateSpotId):
            dataio.read_matrix_csv(str(p))
        p2 = tmp_path / "nan.csv"
        p2.write_text("spot_id,x\na,nan\n")
        with pytest.raises(NonNumericCell):
            dataio.read_matrix_csv(str(p2))
        p3 = tmp_path / "text.csv"
        p3.write_text("spot_id,x\na,hello\n")
        with pytest.raises(NonNumericCell):
            dataio.read_matrix_csv(str(p3))
        p4 = tmp_path / "ragged.csv"
        p4.write_text("spot_id,x,y\na,1\n")
        with pytest.raises(RowCountMismatch):
            dataio.read_matrix_csv(str(p4))

    def test_errors_past_the_first_row_name_their_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("spot_id,x,y\na,1,2\nb,3,4\nc,5\n")
        with pytest.raises(RowCountMismatch, match=re.escape(f"expr row 4 of {p} has 2 fields, header has 3")):
            dataio.read_matrix_csv(str(p), "expr")
        p.write_text("spot_id,x,y\na,1,2\nb,3,hello\n")
        with pytest.raises(NonNumericCell, match=re.escape("expr cell at row 'b', column 'y' is not numeric: 'hello'")):
            dataio.read_matrix_csv(str(p), "expr")
        p.write_text("spot_id,x,y\na,1,2\nb,3,4\nc,-inf,6\n")
        with pytest.raises(NonNumericCell, match=re.escape("expr cell at row 'c', column 'x' is not finite: '-inf'")):
            dataio.read_matrix_csv(str(p), "expr")

    def test_empty_file_and_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(InvalidDataset, match=re.escape(f"expr file {p} is empty")):
            dataio.read_matrix_csv(str(p), "expr")
        p.write_text("spot_id,x,y\n")
        cols, ids, m = dataio.read_matrix_csv(str(p))
        assert cols == ["x", "y"] and ids == []
        assert m.shape == (0, 2) and m.dtype == np.float64


def _toy_dataset(rng, n=6, g=3, with_mor=True, with_labels=True):
    return dataio.SpotDataset(
        tra=rng.uniform(0, 5, size=(n, g)),
        coords=rng.uniform(0, 4, size=(n, 2)),
        spot_ids=[f"s{i}" for i in range(n)],
        gene_ids=[f"g{j}" for j in range(g)],
        mor=rng.normal(size=(n, 2)) if with_mor else None,
        labels=rng.integers(0, 2, n) if with_labels else None,
    )


class TestDataset:
    def test_validation(self, rng):
        with pytest.raises(RowCountMismatch):
            dataio.SpotDataset(np.zeros((3, 2)), np.zeros((2, 2)), ["a", "b", "c"], ["g0", "g1"])
        with pytest.raises(NonNumericCell):
            dataio.SpotDataset(
                np.array([[1.0, np.inf], [0, 0]]), np.zeros((2, 2)), ["a", "b"], ["g0", "g1"]
            )
        with pytest.raises(RowCountMismatch):
            dataio.SpotDataset(np.zeros((2, 2)), np.zeros((2, 2)), ["a", "b"], ["g0"])

    def test_write_then_load_round_trip(self, tmp_path, rng):
        ds = _toy_dataset(rng)
        dataio.write_dataset(ds, str(tmp_path))
        back = dataio.load_dataset(
            str(tmp_path / "tra.csv"),
            str(tmp_path / "coords.csv"),
            mor_path=str(tmp_path / "mor.csv"),
            labels_path=str(tmp_path / "labels.csv"),
        )
        assert back.spot_ids == ds.spot_ids and back.gene_ids == ds.gene_ids
        assert np.array_equal(back.tra, ds.tra)
        assert np.array_equal(back.coords, ds.coords)
        assert np.array_equal(back.mor, ds.mor)
        assert np.array_equal(back.labels, ds.labels)

    def test_side_files_align_by_spot_id(self, tmp_path, rng):
        ds = _toy_dataset(rng, with_mor=False, with_labels=False)
        dataio.write_dataset(ds, str(tmp_path))
        # coords written in reversed row order must land back in tra order
        dataio.write_matrix_csv(
            str(tmp_path / "coords.csv"), ds.spot_ids[::-1], ["x", "y"], ds.coords[::-1]
        )
        back = dataio.load_dataset(str(tmp_path / "tra.csv"), str(tmp_path / "coords.csv"))
        assert np.array_equal(back.coords, ds.coords)

    def test_missing_spot_in_side_file(self, tmp_path, rng):
        ds = _toy_dataset(rng, with_mor=False, with_labels=False)
        dataio.write_dataset(ds, str(tmp_path))
        dataio.write_matrix_csv(
            str(tmp_path / "coords.csv"), ds.spot_ids[:-1], ["x", "y"], ds.coords[:-1]
        )
        with pytest.raises(RowCountMismatch):
            dataio.load_dataset(str(tmp_path / "tra.csv"), str(tmp_path / "coords.csv"))

    def test_fractional_labels_rejected(self, tmp_path, rng):
        ds = _toy_dataset(rng, with_labels=False)
        dataio.write_dataset(ds, str(tmp_path))
        (tmp_path / "labels.csv").write_text(
            "spot_id,label\n" + "".join(f"s{i},{i + 0.5}\n" for i in range(ds.n_spots))
        )
        with pytest.raises(NonNumericCell):
            dataio.load_dataset(
                str(tmp_path / "tra.csv"),
                str(tmp_path / "coords.csv"),
                labels_path=str(tmp_path / "labels.csv"),
            )


    def test_labels_within_rounding_of_an_integer_accepted(self, tmp_path, rng):
        ds = _toy_dataset(rng, with_labels=False)
        dataio.write_dataset(ds, str(tmp_path))
        (tmp_path / "labels.csv").write_text(
            "spot_id,label\n" + "".join(f"s{i},{3 + 1e-12!r}\n" for i in range(ds.n_spots))
        )
        loaded = dataio.load_dataset(
            str(tmp_path / "tra.csv"),
            str(tmp_path / "coords.csv"),
            labels_path=str(tmp_path / "labels.csv"),
        )
        assert loaded.labels.tolist() == [3] * ds.n_spots

class TestReport:
    def test_label_row_mismatch(self, tmp_path):
        with pytest.raises(RowCountMismatch):
            dataio.write_labels_csv(str(tmp_path / "labels.csv"), ["a", "b"], np.array([0]))

    def test_plot_scatter_svg(self, tmp_path, rng):
        path = tmp_path / "p.svg"
        dataio.plot_scatter(rng.normal(size=(11, 2)), np.arange(11) % 3, str(path))
        text = path.read_text()
        assert text.startswith("<svg") or "<svg" in text
        assert text.count("<circle") == 11
